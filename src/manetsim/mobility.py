"""Random waypoint mobility and mobility trace files."""

import csv
import math
from dataclasses import dataclass

from .config import ConfigError


@dataclass
class NodeState:
    id: int
    pos: tuple          # (x, y) meters
    speed: float        # m/s
    heading: float      # radians in [0, 2*pi)
    waypoint: tuple     # (x, y) meters


def _heading_to(pos, waypoint):
    theta = math.atan2(waypoint[1] - pos[1], waypoint[0] - pos[0])
    return theta % (2.0 * math.pi)


def _draw_leg(node, rng, area, min_speed, v_max):
    """Assign a fresh waypoint and speed, recomputing heading from geometry."""
    w, h = area
    node.waypoint = (rng.uniform(0.0, w), rng.uniform(0.0, h))
    # uniform in (min_speed, v_max]; zero speed would strand the node forever
    node.speed = v_max - rng.uniform(0.0, v_max - min_speed)
    node.heading = _heading_to(node.pos, node.waypoint)


def init_mobility(config, rng):
    """Place nodes uniformly in the area, each with a waypoint and speed."""
    config.validate()
    w, h = config.area
    states = []
    for i in range(config.node_count):
        node = NodeState(id=i, pos=(rng.uniform(0.0, w), rng.uniform(0.0, h)),
                         speed=0.0, heading=0.0, waypoint=(0.0, 0.0))
        _draw_leg(node, rng, config.area, config.min_speed, config.v_max)
        states.append(node)
    return states


def advance(states, dt, config, rng):
    """Move every node speed*dt toward its waypoint.

    A node reaching its waypoint within the step immediately draws a new
    waypoint and speed (zero pause) and spends the leftover time on the new
    heading. Mutates the states in place and returns them.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    for node in states:
        remaining = dt
        while remaining > 0.0:
            x, y = node.pos
            wx, wy = node.waypoint
            dist_wp = math.hypot(wx - x, wy - y)
            step = node.speed * remaining
            if step < dist_wp:
                frac = step / dist_wp
                node.pos = (x + (wx - x) * frac, y + (wy - y) * frac)
                break
            node.pos = node.waypoint
            remaining -= dist_wp / node.speed if node.speed > 0 else remaining
            _draw_leg(node, rng, config.area, config.min_speed, config.v_max)
    return states


# --- mobility trace files -----------------------------------------------------

TRACE_HEADER = ("time_s", "node_id", "x_m", "y_m", "speed_mps", "heading_rad")


class TraceWriter:
    """Streams per-tick node rows to a mobility trace CSV."""

    def __init__(self, path):
        self._file = open(path, "w", newline="")
        self._writer = csv.writer(self._file)
        self._writer.writerow(TRACE_HEADER)

    def record(self, t, states):
        for node in states:
            self._writer.writerow((repr(t), node.id, repr(node.pos[0]),
                                   repr(node.pos[1]), repr(node.speed),
                                   repr(node.heading)))

    def close(self):
        self._file.close()


class Trace:
    """In-memory mobility trace: per-tick positions and velocities."""

    def __init__(self, times, rows, source="mobility trace"):
        self.times = times          # list of tick times
        self.rows = rows            # rows[k][i] = (x, y, speed, heading)
        self.node_count = len(rows[0]) if rows else 0
        self.source = source        # named in the errors it causes

    @classmethod
    def load(cls, path):
        """Read a trace CSV; a malformed, non-finite or ragged row raises
        ConfigError naming path:line."""
        times, rows = [], []
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if tuple(header or ()) != TRACE_HEADER:
                raise ConfigError(f"{path}: not a mobility trace file")

            def bad_row(problem):
                return ConfigError(f"{path}:{reader.line_num}: {problem}")
            current_t = None
            for fields in reader:
                if len(fields) != len(TRACE_HEADER):
                    raise bad_row(f"expected {len(TRACE_HEADER)} fields, "
                                  f"got {len(fields)}")
                try:
                    node_id = int(fields[1])
                    t, x, y, speed, heading = map(float, fields[:1] + fields[2:])
                except ValueError:
                    raise bad_row(f"not a number in {fields}") from None
                if not all(map(math.isfinite, (t, x, y, speed, heading))):
                    raise bad_row(f"non-finite value in {fields}")
                if t != current_t:
                    times.append(t)
                    rows.append([])
                    current_t = t
                if node_id != len(rows[-1]):
                    raise bad_row(f"node rows out of order at t={t}")
                rows[-1].append((x, y, speed, heading))
        for t, row in zip(times, rows):
            if len(row) != len(rows[0]):
                raise ConfigError(f"{path}: tick t={t} has {len(row)} node "
                                  f"rows, not {len(rows[0])}")
        return cls(times, rows, source=str(path))

    def apply(self, k, states):
        """Overwrite node kinematics from trace tick k."""
        for node, (x, y, speed, heading) in zip(states, self.rows[k]):
            node.pos = (x, y)
            node.speed = speed
            node.heading = heading
        return states
