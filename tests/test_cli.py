"""Command line interface, config files, and the experiment matrix runner."""

import csv
import dataclasses
import math
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim import engine
from manetsim.cli import (_apply_flags, build_parser, main, matrix_configs,
                          run_matrix)
from manetsim.config import (PROTOCOLS, ConfigError, ScenarioConfig,
                             load_config, set1_config, set2_config)
from manetsim.metrics import recompute_from_csv, relative_close


def save_config(cfg, path):
    """Write cfg as a `key = value` file that load_config reads back."""
    with open(path, "w") as f:
        for fld in dataclasses.fields(cfg):
            value = getattr(cfg, fld.name)
            if isinstance(value, tuple):
                value = ",".join(repr(v) for v in value)
            f.write(f"{fld.name} = {value}\n")


class TestConfigFiles:
    def test_round_trip_preserves_every_field(self, tmp_path):
        cfg = ScenarioConfig(node_count=23, v_max=17.5, tpc=True,
                             protocol="MMBCR", seed=99, area=(800.0, 1200.0),
                             start_window=(2.0, 8.0), until_first_failure=True)
        path = tmp_path / "scenario.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# comment\n\nnode_count = 10  # inline\nseed = 4\n")
        cfg = load_config(path)
        assert cfg.node_count == 10
        assert cfg.seed == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_removed_max_duration_key_rejected(self, tmp_path):
        # duration is the horizon in both modes; the old cap of a run
        # until the first death is an unknown key, not silently ignored
        path = tmp_path / "scenario.cfg"
        path.write_text("until_first_failure = on\nmax_duration = 500\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:2: unknown key 'max_duration'")):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("node_count 10\n")
        with pytest.raises(ConfigError):
            load_config(path)
        # unparsable values name the file and line
        for line in ("area = 1000", "node_count = fifty"):
            path.write_text(f"# scenario\n{line}\n")
            with pytest.raises(ConfigError, match=re.escape(f"{path}:2: ")):
                load_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        # a repeated key is an error, not a silent override of the first
        path = tmp_path / "scenario.cfg"
        path.write_text("tpc = on\nseed = 4\n# later\ntpc = off\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}:4: tpc repeated; first set at {path}:1")):
            load_config(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("tpc = maybe\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("line, name", [
        ("forwarding_overhead = -1", "forwarding_overhead"),
        ("discovery_retry_interval = -3", "discovery_retry_interval")])
    def test_negative_discovery_timing_rejected_on_load(self, tmp_path, line,
                                                        name):
        # before, such a run exited 0 with packets delivered before they
        # were created and a negative delay per packet
        path = tmp_path / "scenario.cfg"
        path.write_text("node_count = 20\nsession_count = 5\nduration = 20\n"
                        f"start_window = 0, 2\n{line}\n")
        with pytest.raises(ConfigError, match=f"{name} must be >= 0"):
            load_config(path)

    def test_invalid_values_rejected_on_load(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        for line in ("node_count = 1", "buffer_cap = -1", "v_max = inf",
                     "duration = nan", "area = 1000, inf"):
            path.write_text(line + "\n")
            with pytest.raises(ConfigError):
                load_config(path)


_REAL_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)
                if isinstance(f.default, (float, tuple))]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", _REAL_FIELDS)
def test_non_finite_values_rejected(name, bad):
    default = getattr(ScenarioConfig(), name)
    value = (default[0], bad) if isinstance(default, tuple) else bad
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig(**{name: value}).validate()
    if isinstance(default, tuple):  # a list works wherever a tuple does
        ScenarioConfig(**{name: list(default)}).validate()
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig(**{name: list(value)}).validate()


@pytest.mark.parametrize("bad", [2.5, 50.0, math.nan, True, "50"])
@pytest.mark.parametrize("name", ["node_count", "session_count", "packet_size",
                                  "buffer_cap", "seed"])
def test_non_integer_values_rejected(name, bad):
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig(**{name: bad}).validate()


@pytest.mark.parametrize("bad", ["off", "False", 1, 0, None])
@pytest.mark.parametrize("name", ["tpc", "until_first_failure"])
def test_non_boolean_values_rejected(name, bad):
    # a truthy string must not switch TPC on
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig(**{name: bad}).validate()


@pytest.mark.parametrize("bad", [(1000.0,), (1.0, 2.0, 3.0), (), 5.0, "ab",
                                 (0.0, "1"), (True, 5.0)])
@pytest.mark.parametrize("name", ["area", "start_window"])
def test_pair_values_need_exactly_two_numbers(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be two numbers"):
        ScenarioConfig(**{name: bad}).validate()


@pytest.mark.parametrize("bad", ["10", True, None])
@pytest.mark.parametrize("name", ["v_max", "tick", "kappa"])
def test_non_numeric_real_values_rejected(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be a number"):
        ScenarioConfig(**{name: bad}).validate()


# one row per range check of validate(): the fields set, and a fragment of
# the message
RANGE_CHECKS = [
    (dict(area=(0.0, 1000.0)), "zero-area rectangle"),
    (dict(area=(1000.0, -5.0)), "zero-area rectangle"),
    (dict(node_count=1), "need at least 2 nodes"),
    (dict(tx_range=0.0), "tx_range must be positive"),
    (dict(v_max=-1.0), "v_max must be positive"),
    (dict(min_speed=0.0), "min_speed must lie in (0, v_max]"),
    (dict(min_speed=11.0, v_max=10.0), "min_speed must lie in (0, v_max]"),
    (dict(tick=0.0), "tick must be positive"),
    (dict(session_count=-1), "session_count must be >= 0"),
    (dict(cbr_rate=0.0), "cbr_rate must be positive"),
    (dict(packet_size=0), "packet_size must be positive"),
    (dict(buffer_cap=-1), "buffer_cap must be >= 0"),
    (dict(initial_battery=0.0), "initial_battery must be positive"),
    (dict(bitrate=-2.0e6), "bitrate must be positive"),
    (dict(beacon_interval=0.0), "beacon_interval must be positive"),
    (dict(beacon_interval=0.25), "not a whole number of ticks"),
    (dict(duration=0.0), "duration must be positive"),
    (dict(until_first_failure=True, duration=-1.0),
     "duration must be positive"),
    (dict(protocol="AODV"), "unknown protocol 'AODV'"),
    (dict(kappa=-0.5), "kappa must be >= 0"),
    (dict(start_window=(-1.0, 2.0)), "bad start_window"),
    (dict(start_window=(3.0, 2.0)), "bad start_window"),
    (dict(forwarding_overhead=-1.0), "forwarding_overhead must be >= 0"),
    (dict(discovery_retry_interval=-3.0),
     "discovery_retry_interval must be >= 0"),
    # duration is the horizon in both modes
    (dict(until_first_failure=True, duration=0.0),
     "duration must be positive"),
]


@pytest.mark.parametrize("fields, fragment", RANGE_CHECKS,
                         ids=[",".join(f) + f"-{i}" for i, (f, _)
                              in enumerate(RANGE_CHECKS)])
def test_range_checks(fields, fragment):
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        ScenarioConfig(**fields).validate()


def test_zero_forwarding_overhead_and_retry_interval_accepted():
    ScenarioConfig(forwarding_overhead=0.0,
                   discovery_retry_interval=0.0).validate()


@pytest.mark.parametrize("interval, whole", [(0.25, False), (0.05, False),
                                             (1.0, True), (0.3, True)])
def test_beacon_interval_is_a_whole_number_of_ticks(interval, whole):
    cfg = ScenarioConfig(beacon_interval=interval, tick=0.1)
    if whole:  # 0.3 / 0.1 == 2.9999999999999996 is three ticks
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match="beacon_interval"):
            cfg.validate()


_FIELD_NAMES = {f.name for f in dataclasses.fields(ScenarioConfig)}


@st.composite
def valid_configs(draw):
    """A valid ScenarioConfig with every field drawn on its own, a field
    that validate() checks against another after that one."""
    v_max = draw(st.floats(1e-3, 1e3))
    tick = draw(st.floats(1e-3, 10.0))
    lo = draw(st.floats(0.0, 1e4))
    positive = st.floats(1e-3, 1e6)
    values = dict(
        area=(draw(positive), draw(positive)),
        node_count=draw(st.integers(2, 10**4)),
        tx_range=draw(positive),
        tpc=draw(st.booleans()),
        v_max=v_max,
        min_speed=draw(st.floats(0.0, v_max, exclude_min=True)),
        tick=tick,
        session_count=draw(st.integers(0, 10**4)),
        cbr_rate=draw(positive),
        packet_size=draw(st.integers(1, 10**5)),
        start_window=(lo, draw(st.floats(lo, 1e4))),
        buffer_cap=draw(st.integers(0, 10**4)),
        initial_battery=draw(positive),
        bitrate=draw(positive),
        beacon_interval=tick * draw(st.integers(1, 100)),
        duration=draw(positive),
        until_first_failure=draw(st.booleans()),
        protocol=draw(st.sampled_from(PROTOCOLS)),
        kappa=draw(st.floats(0.0, 1e3)),
        forwarding_overhead=draw(st.floats(0.0, 1.0)),
        discovery_retry_interval=draw(st.floats(0.0, 1e3)),
        seed=draw(st.integers(-2**63, 2**63)),
    )
    assert values.keys() == _FIELD_NAMES  # a new field is drawn here too
    return ScenarioConfig(**values).validate()


@settings(max_examples=200, deadline=None)
@given(cfg=valid_configs())
def test_config_file_round_trip_of_any_valid_config(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
_NOT_POSITIVE = st.floats(max_value=0.0) | _NON_FINITE
_NEGATIVE = st.floats(max_value=-math.ulp(0.0)) | _NON_FINITE
_POSITIVE = st.floats(1e-3, 1e6)
# a config file reads 0 and 1 as booleans
_NOT_BOOLEAN = st.integers().filter(lambda i: i not in (0, 1)) | _NON_FINITE
# per field, values validate() rejects whatever the other fields hold; each
# is also bad in the text save_config writes for it
_BAD_VALUES = dict(
    area=st.tuples(_NOT_POSITIVE, _POSITIVE) | st.tuples(_POSITIVE,
                                                          _NOT_POSITIVE),
    node_count=st.integers(max_value=1) | _NON_FINITE,
    tx_range=_NOT_POSITIVE,
    tpc=_NOT_BOOLEAN,
    v_max=_NOT_POSITIVE,
    # above the default v_max of 10 m/s
    min_speed=_NOT_POSITIVE | st.floats(min_value=10.0, exclude_min=True),
    tick=_NOT_POSITIVE,
    session_count=st.integers(max_value=-1) | _NON_FINITE,
    cbr_rate=_NOT_POSITIVE,
    packet_size=st.integers(max_value=0) | _NON_FINITE,
    start_window=st.tuples(_NEGATIVE, _POSITIVE) | st.tuples(_POSITIVE,
                                                            _NEGATIVE),
    buffer_cap=st.integers(max_value=-1) | _NON_FINITE,
    initial_battery=_NOT_POSITIVE,
    bitrate=_NOT_POSITIVE,
    beacon_interval=_NOT_POSITIVE,
    duration=_NOT_POSITIVE,
    until_first_failure=_NOT_BOOLEAN,
    protocol=st.text(string.ascii_letters).filter(
        lambda p: p not in PROTOCOLS) | _NON_FINITE,
    kappa=_NEGATIVE,
    forwarding_overhead=_NEGATIVE,
    discovery_retry_interval=_NEGATIVE,
    seed=st.floats() | _NON_FINITE,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bad_value_of_any_field_rejected(tmp_path_factory, data):
    assert _BAD_VALUES.keys() == _FIELD_NAMES
    name = data.draw(st.sampled_from(sorted(_BAD_VALUES)))
    # duration in both modes, as every field
    cfg = ScenarioConfig(until_first_failure=data.draw(st.booleans()))
    cfg = cfg.replace(**{name: data.draw(_BAD_VALUES[name])})
    with pytest.raises(ConfigError):
        cfg.validate()
    path = tmp_path_factory.getbasetemp() / "bad_value.cfg"
    save_config(cfg, path)
    with pytest.raises(ConfigError):
        load_config(path)


class TestMatrixCells:
    def test_full_matrix_size(self):
        # 3 protocols x 2 densities x 6 speeds x 2 loads x 2 tpc modes
        assert len(matrix_configs(ScenarioConfig(), seeds=(1,))) == 144

    def test_matrix_configs_apply_the_cell_and_seed(self):
        configs = matrix_configs(set1_config(duration=5.0), seeds=(12, 13),
                                 protocols=("MMBCR",), nodes=(100,),
                                 vmax=(30.0,), sessions=(30,), tpc=(True,))
        assert [(cfg.protocol, cfg.node_count, cfg.v_max, cfg.session_count,
                 cfg.tpc, cfg.seed) for cfg in configs] == \
            [("MMBCR", 100, 30.0, 30, True, 12),
             ("MMBCR", 100, 30.0, 30, True, 13)]
        # every other field comes from the base
        assert all((cfg.initial_battery, cfg.duration) == (1500.0, 5.0)
                   for cfg in configs)


def _small_base():
    return ScenarioConfig(node_count=15, session_count=3, duration=8.0)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix")
    configs = matrix_configs(_small_base(), (5, 6), protocols=("FORP", "LBR"),
                             nodes=(15,), vmax=(10.0,), sessions=(3,),
                             tpc=(False,))
    rows = run_matrix(configs, out)
    return out, configs, rows


class TestRunMatrix:
    def test_row_count_and_order(self, outputs):
        _, configs, rows = outputs
        assert [cfg for cfg, _ in rows] == configs
        # the seed runs innermost, each cell under every seed
        assert [(cfg.protocol, cfg.seed) for cfg in configs] == \
            [(p, s) for p in ("FORP", "LBR") for s in (5, 6)]

    def test_runs_csv_schema(self, outputs):
        out, _, rows = outputs
        with open(out / "runs.csv", newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == ["protocol", "nodes", "sessions",
                                         "v_max", "tpc", "seed", "metric",
                                         "value"]
            records = list(reader)
        assert len(records) == len(rows) * 6  # six metrics per run

    def test_comparison_csv_aggregates(self, outputs):
        out, _, _ = outputs
        with open(out / "comparison.csv", newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == ["protocol", "nodes", "sessions",
                                         "v_max", "tpc", "metric", "mean",
                                         "stddev", "n_reps"]
            records = list(reader)
        assert len(records) == 2 * 6  # two cells of two seeds each
        assert all(r["n_reps"] == "2" for r in records)
        transitions = [r for r in records
                       if r["metric"] == "route_transitions"]
        assert all(float(r["mean"]) >= 0.0 for r in transitions)

    def test_one_replication_has_no_stddev(self, tmp_path):
        # before, route_transitions, hop_count and fairness_stddev read 0.0
        run_matrix([_small_base()], tmp_path)
        with open(tmp_path / "comparison.csv", newline="") as f:
            records = list(csv.DictReader(f))
        assert len(records) == 6
        assert all(r["n_reps"] == "1" and r["stddev"] == "" for r in records)
        assert records[0]["mean"] != ""

    def test_matrix_is_deterministic(self, outputs, tmp_path):
        out, configs, _ = outputs
        run_matrix(configs, tmp_path)
        assert (out / "runs.csv").read_bytes() == \
            (tmp_path / "runs.csv").read_bytes()

    def test_worker_pool_matches_serial(self, outputs, tmp_path):
        out, configs, _ = outputs
        run_matrix(configs, tmp_path, workers=2)
        assert (out / "runs.csv").read_bytes() == \
            (tmp_path / "runs.csv").read_bytes()


class TestCommandLine:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_emits_metrics_and_ledger(self, tmp_path):
        out = tmp_path / "out"
        code = self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--seed", "1",
                            "--out-dir", str(out))
        assert code == 0
        with open(out / "metrics.csv", newline="") as f:
            metrics = dict((row["metric"], row["value"])
                           for row in csv.DictReader(f))
        assert set(metrics) == {"route_transitions", "hop_count",
                                "delay_per_packet", "energy_per_packet",
                                "fairness_stddev", "first_failure_time"}
        assert (out / "ledger.csv").exists()
        assert not (out / "packets.csv").exists()

    def test_run_optional_emissions(self, tmp_path):
        out = tmp_path / "out"
        code = self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--seed", "1",
                            "--out-dir", str(out),
                            "--emit-packets", "--emit-routes")
        assert code == 0
        assert (out / "packets.csv").exists()
        assert (out / "routes.csv").exists()

    def test_config_file_round_trip_runs_identically(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        save_config(_small_base().replace(seed=3), cfg_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert self.run_cli("run", "--config", str(cfg_path),
                                "--seed", "3", "--out-dir", str(out),
                                "--emit-packets") == 0
            outs.append(out)
        for name in ("metrics.csv", "ledger.csv", "packets.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        save_config(_small_base(), cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        self.run_cli("run", "--config", str(cfg_path), "--seed", "1",
                     "--out-dir", str(out_a))
        self.run_cli("run", "--config", str(cfg_path), "--seed", "1",
                     "--protocol", "MMBCR", "--tpc", "on",
                     "--out-dir", str(out_b))
        assert (out_a / "metrics.csv").read_bytes() != \
            (out_b / "metrics.csv").read_bytes()

    def test_trace_round_trip_via_cli(self, tmp_path):
        cfg = ["--nodes", "15", "--sessions", "3", "--duration", "8",
               "--seed", "2"]
        trace = tmp_path / "trace.csv"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run_cli("run", *cfg, "--out-dir", str(out_a),
                            "--trace-out", str(trace)) == 0
        assert self.run_cli("run", *cfg, "--out-dir", str(out_b),
                            "--trace-in", str(trace)) == 0
        assert (out_a / "metrics.csv").read_bytes() == \
            (out_b / "metrics.csv").read_bytes()

    def test_trace_with_another_tick_rejected(self, tmp_path):
        trace = tmp_path / "trace.csv"
        assert self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--seed", "2",
                            "--out-dir", str(tmp_path / "a"),
                            "--trace-out", str(trace)) == 0
        cfg_path = tmp_path / "scenario.cfg"
        save_config(_small_base().replace(tick=0.2), cfg_path)
        code = self.run_cli("run", "--config", str(cfg_path), "--seed", "2",
                            "--out-dir", str(tmp_path / "b"),
                            "--trace-in", str(trace))
        assert code == 2

    def test_paired_traces_across_protocols(self, tmp_path):
        traces = []
        for proto in ("FORP", "LBR", "MMBCR"):
            trace = tmp_path / f"{proto}.csv"
            assert self.run_cli("run", "--nodes", "15", "--sessions", "3",
                                "--duration", "8", "--seed", "2",
                                "--protocol", proto,
                                "--out-dir", str(tmp_path / proto),
                                "--trace-out", str(trace)) == 0
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1] == traces[2]

    # each bad trace fails with exit code 2 at set-up, naming the file and,
    # for a bad row, its line; the line numbers below count the header as 1
    TRACE_RUN = ("--nodes", "15", "--sessions", "3", "--duration", "8",
                 "--seed", "2")

    def replay_edited_trace(self, tmp_path, capsys, edit, *flags):
        trace = tmp_path / "trace.csv"
        assert self.run_cli("run", *self.TRACE_RUN,
                            "--out-dir", str(tmp_path / "a"),
                            "--trace-out", str(trace)) == 0
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(edit(lines)))
        capsys.readouterr()
        rerecorded = tmp_path / "again.csv"
        code = self.run_cli("run", *self.TRACE_RUN, *flags,
                            "--out-dir", str(tmp_path / "b"),
                            "--trace-in", str(trace),
                            "--trace-out", str(rerecorded))
        assert code == 2
        assert not rerecorded.exists()   # rejected before the first tick
        assert not (tmp_path / "b").exists()  # and before the out dir
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {trace}")
        return err

    @staticmethod
    def edit_field(line_no, field, value):
        def edit(lines):
            fields = lines[line_no - 1].rstrip("\r\n").split(",")
            if value is None:
                del fields[field]
            else:
                fields[field] = value
            lines[line_no - 1] = ",".join(fields) + "\r\n"
            return lines
        return edit

    def test_trace_row_with_five_fields(self, tmp_path, capsys):
        err = self.replay_edited_trace(tmp_path, capsys,
                                       self.edit_field(5, 5, None))
        assert ":5: expected 6 fields, got 5" in err

    def test_trace_non_numeric_field(self, tmp_path, capsys):
        err = self.replay_edited_trace(tmp_path, capsys,
                                       self.edit_field(7, 3, "north"))
        assert ":7: not a number" in err

    def test_trace_nan_position(self, tmp_path, capsys):
        err = self.replay_edited_trace(tmp_path, capsys,
                                       self.edit_field(9, 2, "nan"))
        assert ":9: non-finite value" in err

    def test_trace_node_count_mismatch(self, tmp_path, capsys):
        err = self.replay_edited_trace(tmp_path, capsys, lambda lines: lines,
                                       "--nodes", "16")
        assert "15 nodes, but the run has 16" in err

    def test_trace_shorter_than_run(self, tmp_path, capsys):
        # the header and the first 40 of the run's 80 ticks
        err = self.replay_edited_trace(tmp_path, capsys,
                                       lambda lines: lines[:1 + 40 * 15])
        assert "40 ticks, but the run needs 80" in err

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        for line in ("node_count = 1", "node_count = fifty",
                     "beacon_interval = 0.25", "tpc = on\ntpc = off"):
            bad.write_text(line + "\n")
            code = self.run_cli("run", "--config", str(bad), "--seed", "1",
                                "--out-dir", str(tmp_path / "out"))
            assert code == 2

    def test_max_duration_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("node_count = 20\nmax_duration = 500\n")
        code = self.run_cli("run", "--config", str(bad), "--seed", "1",
                            "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == (f"configuration error: {bad}:2: "
                                           f"unknown key 'max_duration'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, name", [
        ("forwarding_overhead = -1", "forwarding_overhead"),
        ("discovery_retry_interval = -3", "discovery_retry_interval")])
    def test_negative_discovery_timing_exit_code(self, tmp_path, capsys, line,
                                                 name):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"node_count = 20\nsession_count = 5\n{line}\n")
        code = self.run_cli("run", "--config", str(bad), "--seed", "1",
                            "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == \
            f"configuration error: {name} must be >= 0\n"
        assert not (tmp_path / "out").exists()

    def test_the_default_base_is_set1(self):
        # `manetsim run` with neither --preset nor --config runs set1
        assert ScenarioConfig() == set1_config()

    def test_run_from_a_preset(self, tmp_path):
        # set2 runs until the first death, which the defaults do not; the
        # scenario flags go on top
        out = tmp_path / "out"
        code = self.run_cli("run", "--preset", "set2", "--nodes", "15",
                            "--sessions", "3", "--battery", "0.5",
                            "--seed", "1", "--out-dir", str(out),
                            "--emit-packets")
        assert code == 0
        with open(out / "metrics.csv", newline="") as f:
            metrics = {row["metric"]: row["value"] for row in csv.DictReader(f)}
        with open(out / "ledger.csv", newline="") as f:
            died = {row["died_s"] for row in csv.DictReader(f)} - {""}
        with open(out / "packets.csv", newline="") as f:
            created = [float(row["created_s"]) for row in csv.DictReader(f)]
        first = float(metrics["first_failure_time"])
        assert died == {repr(first)}
        assert created and max(created) <= first + 1e-9

    def test_run_csvs_recompute_its_metrics(self, tmp_path):
        # the four files of one run agree: packets, routes and ledger give
        # back metrics.csv (route_transitions aside, as in criterion 07)
        out = tmp_path / "out"
        code = self.run_cli("run", "--preset", "set2", "--nodes", "30",
                            "--sessions", "6", "--battery", "3", "--seed", "1",
                            "--out-dir", str(out), "--emit-packets",
                            "--emit-routes")
        assert code == 0
        with open(out / "metrics.csv", newline="") as f:
            written = {row["metric"]: float(row["value"]) if row["value"]
                       else None for row in csv.DictReader(f)}
        first = written["first_failure_time"]
        assert first is not None
        recomputed = recompute_from_csv(out / "packets.csv",
                                        out / "routes.csv",
                                        out / "ledger.csv", end_time=first)
        for name in ("hop_count", "delay_per_packet", "energy_per_packet",
                     "fairness_stddev", "first_failure_time"):
            assert relative_close(getattr(recomputed, name), written[name]), \
                name

    def test_non_finite_flag_exit_code(self, tmp_path):
        code = self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--vmax", "inf", "--seed", "1",
                            "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_preset_and_config_are_exclusive(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        save_config(_small_base(), cfg_path)
        with pytest.raises(SystemExit) as exc:
            self.run_cli("run", "--preset", "set1", "--config", str(cfg_path),
                         "--seed", "1", "--out-dir", str(tmp_path / "out"))
        assert exc.value.code == 2

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        code = self.run_cli("run", "--nodes", "15", "--sessions", "3",
                            "--duration", "8", "--seed", "1",
                            "--out-dir", str(blocker / "out"))
        assert code == 3

    @pytest.mark.parametrize("flag", ["--config", "--trace-in"])
    def test_undecodable_input_file_exit_code(self, tmp_path, capsys, flag):
        # before, the UnicodeDecodeError escaped as a traceback, and a bad
        # trace left an empty out dir behind
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfenode_count = 10\n")
        code = self.run_cli("run", flag, str(bad), "--seed", "1",
                            "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: {bad}: not UTF-8 text")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, text, name, value", [
        ("--protocol", "MMBCR", "protocol", "MMBCR"),
        ("--nodes", "23", "node_count", 23),
        ("--vmax", "17.5", "v_max", 17.5),
        ("--sessions", "7", "session_count", 7),
        ("--tpc", "on", "tpc", True),
        ("--battery", "250", "initial_battery", 250.0),
        ("--duration", "12", "duration", 12.0),
        ("--kappa", "0.25", "kappa", 0.25),
    ])
    def test_scenario_flag_sets_its_field(self, flag, text, name, value):
        args = build_parser().parse_args(["run", flag, text, "--seed", "4",
                                          "--out-dir", "out"])
        base = set2_config()
        cfg = _apply_flags(base, args)
        assert getattr(cfg, name) == value != getattr(base, name)
        assert cfg.seed == 4
        # a fixed duration ends a run-until-first-failure base
        assert cfg.until_first_failure == (flag != "--duration")
        assert cfg.replace(**{name: getattr(base, name), "seed": base.seed,
                              "until_first_failure": True}) == base

    def test_matrix_unknown_preset_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("matrix", "--preset", "bogus", "--seed", "1",
                         "--out-dir", str(tmp_path / "matrix"))
        assert exc.value.code == 2

    def test_matrix_subcommand(self, tmp_path):
        out = tmp_path / "matrix"
        code = self.run_cli("matrix", "--preset", "set2", "--reps", "1",
                            "--seed", "1", "--out-dir", str(out),
                            "--protocol", "FORP", "--nodes", "15",
                            "--vmax", "10", "--sessions", "2", "--tpc", "off")
        assert code == 0
        assert (out / "runs.csv").exists()
        assert (out / "comparison.csv").exists()

    @pytest.mark.parametrize("flag, values", [("--protocol", ("LBR", "LBR")),
                                              ("--nodes", ("15", "15")),
                                              ("--vmax", ("20", "20.0")),
                                              ("--sessions", ("2", "2"))])
    def test_matrix_rejects_a_repeated_axis_value(self, tmp_path, capsys,
                                                  flag, values):
        # before, each run was written twice and its one seed aggregated
        # as two replications
        axes = {"--protocol": ("FORP",), "--nodes": ("15",),
                "--vmax": ("10",), "--sessions": ("2",), flag: values}
        out = tmp_path / "matrix"
        code = self.run_cli("matrix", "--preset", "set1", "--seed", "1",
                            "--out-dir", str(out), "--tpc", "off",
                            *(arg for name, given in axes.items()
                              for value in given for arg in (name, value)))
        assert code == 2
        assert f"{flag} repeats a value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--reps", "0"), ("--reps", "-1"),
                                             ("--workers", "0"),
                                             ("--workers", "-2")])
    def test_matrix_rejects_fewer_than_one_rep_or_worker(self, tmp_path, flag,
                                                          value):
        # before, --reps 0 wrote header-only tables and exited 0, and
        # --workers 0 ran serially
        out = tmp_path / "matrix"
        code = self.run_cli("matrix", "--preset", "set1", "--seed", "1",
                            "--out-dir", str(out), "--protocol", "FORP",
                            "--nodes", "15", "--vmax", "10", "--sessions", "2",
                            "--tpc", "off", flag, value)
        assert code == 2
        assert not out.exists()

    def test_matrix_rejects_a_bad_grid_value_before_any_run(self, tmp_path,
                                                             monkeypatch):
        # before, every valid cell ahead of the bad one ran first
        calls = []
        run = engine.run

        def counted(cfg, **kwargs):
            calls.append(cfg)
            return run(cfg, **kwargs)
        monkeypatch.setattr(engine, "run", counted)
        out = tmp_path / "matrix"
        configs = [_small_base().replace(v_max=v) for v in (5.0, -1.0)]
        with pytest.raises(ConfigError, match="v_max"):
            run_matrix(configs, out)
        assert calls == []
        assert not out.exists()
        code = self.run_cli("matrix", "--preset", "set1", "--seed", "1",
                            "--out-dir", str(out), "--protocol", "FORP",
                            "--nodes", "15", "--sessions", "3", "--tpc", "off",
                            "--vmax", "5", "--vmax", "-1")
        assert code == 2
        assert calls == []
        assert not out.exists()
