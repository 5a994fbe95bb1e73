"""Random waypoint mobility and mobility trace files."""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, open_text


@dataclass(eq=False)
class Nodes:
    """Kinematics of every node, one float array per field, indexed by id."""
    x: np.ndarray           # meters
    y: np.ndarray
    speed: np.ndarray       # m/s
    heading: np.ndarray     # radians in [0, 2*pi)
    wx: np.ndarray          # waypoint of the current leg, meters
    wy: np.ndarray


def _draw_leg(nodes, i, rng, area, min_speed, v_max):
    """Give node i a fresh waypoint and speed, and head it there."""
    w, h = area
    wx = nodes.wx[i] = rng.uniform(0.0, w)
    wy = nodes.wy[i] = rng.uniform(0.0, h)
    # uniform in (min_speed, v_max]; zero speed would strand the node forever
    nodes.speed[i] = v_max - rng.uniform(0.0, v_max - min_speed)
    theta = math.atan2(wy - nodes.y[i], wx - nodes.x[i])
    nodes.heading[i] = theta % (2.0 * math.pi)


def init_mobility(config, rng):
    """Place nodes uniformly in the area, each with a waypoint and speed."""
    config.validate()
    w, h = config.area
    nodes = Nodes(*np.zeros((6, config.node_count)))
    for i in range(config.node_count):
        nodes.x[i] = rng.uniform(0.0, w)
        nodes.y[i] = rng.uniform(0.0, h)
        _draw_leg(nodes, i, rng, config.area, config.min_speed, config.v_max)
    return nodes


def advance(nodes, dt, config, rng):
    """Move every node speed*dt toward its waypoint, in place.

    Nodes short of their waypoints move in one array step. The others, in
    ascending id order as the rng stream requires, draw a new waypoint and
    speed on arrival (zero pause) and spend the leftover time on that leg.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x, y, wx, wy, speed = nodes.x, nodes.y, nodes.wx, nodes.wy, nodes.speed
    dx, dy = wx - x, wy - y
    # math.hypot per node: np.hypot rounds differently on some inputs
    dist = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float)
    step = speed * dt
    short = step < dist
    # a node that arrives keeps a fraction of 0 here: the loop moves it
    frac = np.divide(step, dist, out=np.zeros_like(dist), where=short)
    x += dx * frac
    y += dy * frac
    for i in np.flatnonzero(~short).tolist():
        remaining = dt
        while remaining > 0.0:
            dist_wp = math.hypot(wx[i] - x[i], wy[i] - y[i])
            step_i = speed[i] * remaining
            if step_i < dist_wp:
                frac_i = step_i / dist_wp
                x[i] += (wx[i] - x[i]) * frac_i
                y[i] += (wy[i] - y[i]) * frac_i
                break
            x[i], y[i] = wx[i], wy[i]
            remaining -= dist_wp / speed[i] if speed[i] > 0 else remaining
            _draw_leg(nodes, i, rng, config.area, config.min_speed, config.v_max)


# --- mobility trace files -----------------------------------------------------

TRACE_HEADER = ("time_s", "node_id", "x_m", "y_m", "speed_mps", "heading_rad")


class TraceWriter:
    """Streams per-tick node rows to a mobility trace CSV."""

    def __init__(self, path):
        self._file = open(path, "w", newline="")
        self._writer = csv.writer(self._file)
        self._writer.writerow(TRACE_HEADER)

    def record(self, t, nodes):
        # as Python floats, which csv formats faster than numpy scalars
        columns = (nodes.x, nodes.y, nodes.speed, nodes.heading)
        self._writer.writerows(
            (t, i, *row)
            for i, row in enumerate(zip(*(c.tolist() for c in columns))))

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
        ConfigError naming path:line, and bytes that are not UTF-8 one
        naming path."""
        times, rows = [], []
        with open_text(path, newline="") as f:
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

    def apply(self, k, nodes):
        """Overwrite node kinematics from trace tick k."""
        (nodes.x[:], nodes.y[:], nodes.speed[:],
         nodes.heading[:]) = np.array(self.rows[k]).T
