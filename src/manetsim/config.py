"""Scenario configuration: parameter set for one simulation run."""

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised when a scenario configuration is invalid."""


PROTOCOLS = ("FORP", "LBR", "MMBCR")


@dataclass
class ScenarioConfig:
    # topology / radio
    area: tuple = (1000.0, 1000.0)      # meters (width, height)
    node_count: int = 50
    tx_range: float = 250.0             # meters
    tpc: bool = False                   # transmission power control on/off

    # mobility (random waypoint, zero pause)
    v_max: float = 10.0                 # m/s
    min_speed: float = 0.01             # m/s; avoids permanently stuck nodes
    tick: float = 0.1                   # s; topology rebuilt every tick

    # traffic
    session_count: int = 15
    cbr_rate: float = 4.0               # data packets per second
    packet_size: int = 512              # bytes
    start_window: tuple = (1.0, 40.0)   # session start times drawn uniformly here
    buffer_cap: int = 64                # per-session buffered packets; oldest dropped

    # energy
    initial_battery: float = 1500.0     # Joules
    bitrate: float = 2.0e6              # bits/s
    beacon_interval: float = 1.0        # s

    # stop condition: the horizon, and optionally the first node death
    duration: float = 1000.0            # s; the horizon in both modes
    until_first_failure: bool = False   # also stop at the first death's tick

    # routing / delay model
    protocol: str = "FORP"
    kappa: float = 0.5                  # contention coefficient in the delay model
    forwarding_overhead: float = 1.0e-3  # s per hop during route discovery
    discovery_retry_interval: float = 0.5  # s to wait after a failed discovery

    seed: int = 1

    def validate(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be True or False, "
                                  f"got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if name in _TUPLE_FIELDS:
                parts = value
                if not (isinstance(value, (tuple, list)) and len(value) == 2
                        and all(map(_is_number, value))):
                    raise ConfigError(f"{name} must be two numbers, "
                                      f"got {value!r}")
            elif _is_number(value):
                parts = (value,)
            else:
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not all(map(math.isfinite, parts)):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        w, h = self.area
        if w <= 0 or h <= 0:
            raise ConfigError(f"zero-area rectangle: {self.area}")
        if self.node_count < 2:
            raise ConfigError(f"need at least 2 nodes, got {self.node_count}")
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in _NON_NEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0 < self.min_speed <= self.v_max:
            raise ConfigError("min_speed must lie in (0, v_max]")
        # beacons go out on ticks only: 0.3 s is 3 ticks of 0.1 s although
        # 0.3 / 0.1 == 2.9999999999999996, but 0.25 s is no whole number
        ticks = self.beacon_interval / self.tick
        if round(ticks) < 1 or abs(ticks - round(ticks)) > 1e-9:
            raise ConfigError(f"beacon_interval {self.beacon_interval!r} is "
                              f"not a whole number of ticks of {self.tick!r}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        lo, hi = self.start_window
        if lo < 0 or hi < lo:
            raise ConfigError(f"bad start_window {self.start_window}")
        return self

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


def _fields_of(*types):
    return tuple(f.name for f in dataclasses.fields(ScenarioConfig)
                 if f.type in types)


_REAL_FIELDS = _fields_of(float, tuple)
_INT_FIELDS = _fields_of(int)
_TUPLE_FIELDS = _fields_of(tuple)
_BOOL_FIELDS = _fields_of(bool)
_STR_FIELDS = _fields_of(str)
_POSITIVE_FIELDS = ("tx_range", "v_max", "tick", "cbr_rate", "packet_size",
                    "initial_battery", "bitrate", "beacon_interval",
                    "duration")
_NON_NEGATIVE_FIELDS = ("session_count", "buffer_cap", "kappa",
                        "forwarding_overhead", "discovery_retry_interval")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def set1_config(**overrides):
    """Experiment set 1: 1500 J per node, fixed 1000 s horizon."""
    cfg = ScenarioConfig(initial_battery=1500.0, duration=1000.0,
                         until_first_failure=False)
    return cfg.replace(**overrides)


def set2_config(**overrides):
    """Experiment set 2: 100 J per node, run until the first node dies or
    for 20000 s."""
    cfg = ScenarioConfig(initial_battery=100.0, duration=20000.0,
                         until_first_failure=True)
    return cfg.replace(**overrides)


# --- key = value config files -------------------------------------------------


@contextmanager
def open_text(path, newline=None):
    """Open an input file as UTF-8 text; undecodable bytes raise ConfigError
    naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_config(path) -> ScenarioConfig:
    values, set_at = {}, {}
    field_names = {f.name for f in dataclasses.fields(ScenarioConfig)}
    with open_text(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in field_names:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in set_at:
                raise ConfigError(f"{path}:{lineno}: {key} repeated; first set "
                                  f"at {path}:{set_at[key]}")
            set_at[key] = lineno
            try:
                values[key] = _parse_value(key, text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: "
                                  f"{text!r} ({exc})") from None
    return ScenarioConfig(**values).validate()


def _parse_value(key, text):
    if key in _TUPLE_FIELDS:
        parts = tuple(float(part) for part in text.split(","))
        if len(parts) != 2:
            raise ValueError("expected two comma-separated numbers")
        return parts
    if key in _BOOL_FIELDS:
        if text.lower() in ("true", "1", "on", "yes"):
            return True
        if text.lower() in ("false", "0", "off", "no"):
            return False
        raise ValueError("expected a boolean")
    if key in _INT_FIELDS:
        return int(text)
    if key in _STR_FIELDS:
        return text
    return float(text)
